from setuptools import setup, find_packages

# The compiled accel kernels are strictly optional: only wire the
# cffi build hook in when cffi is importable, so a base install never
# needs a C toolchain and degrades to the pure backend.
try:
    import cffi  # noqa: F401
    cffi_kwargs = {
        "cffi_modules": [
            "src/repro/accel/_native/build_native.py:ffibuilder",
        ],
        "setup_requires": ["cffi>=1.12"],
    }
except ImportError:
    cffi_kwargs = {}

setup(
    name="repro",
    version="1.0.0",
    description=(
        "UPaRC (DATE 2012) reproduction: ultra-fast power-aware FPGA "
        "reconfiguration controller, simulated end to end in Python"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["networkx"],
    python_requires=">=3.9",
    **cffi_kwargs,
)
