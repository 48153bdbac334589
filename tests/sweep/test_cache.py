"""Content-addressed artifact cache: keys, blobs, reconstruction."""

import os

from repro.bitstream.generator import BitstreamSpec, generate_bitstream
from repro.sweep import (
    ArtifactCache,
    CacheStats,
    PayloadSpec,
    RunSpec,
    artifact_key,
)
from repro.sweep import cache as cache_module
from repro.sweep import engine
from repro.sweep.cache import CACHE_FORMAT_VERSION, bitstream_params
from repro.units import DataSize


def _cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"))


def test_blob_roundtrip(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "test", "value": 1})
    assert cache.get(key) is None
    cache.put(key, b"payload bytes")
    assert cache.get(key) == b"payload bytes"
    assert cache.contains(key)


def test_key_is_canonical_json_order_independent():
    assert (artifact_key({"a": 1, "b": 2.5})
            == artifact_key({"b": 2.5, "a": 1}))


def test_key_changes_with_any_parameter():
    base = bitstream_params(BitstreamSpec(size=DataSize.from_kb(6.5),
                                          seed=2012))
    reseeded = dict(base)
    reseeded["seed"] = 2013
    resized = dict(base)
    resized["size_bytes"] = base["size_bytes"] + 4
    keys = {artifact_key(base), artifact_key(reseeded),
            artifact_key(resized)}
    assert len(keys) == 3


def test_every_cache_key_embeds_the_format_version(monkeypatch):
    # Bumping CACHE_FORMAT_VERSION must orphan every cached artifact:
    # both key builders carry it, so the keys move with it.
    spec = BitstreamSpec(size=DataSize.from_kb(6.5), seed=2012)
    run = RunSpec(workload="reconfigure", controller="UPaRC_i",
                  frequency_mhz=100.0,
                  payload=PayloadSpec(size_kb=6.5, seed=2012))
    assert bitstream_params(spec)["version"] == CACHE_FORMAT_VERSION
    assert engine._record_params(run)["version"] == CACHE_FORMAT_VERSION

    before = (artifact_key(bitstream_params(spec)),
              artifact_key(engine._record_params(run)))
    monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION",
                        CACHE_FORMAT_VERSION + 1)
    monkeypatch.setattr(engine, "CACHE_FORMAT_VERSION",
                        CACHE_FORMAT_VERSION + 1)
    after = (artifact_key(bitstream_params(spec)),
             artifact_key(engine._record_params(run)))
    assert before[0] != after[0]
    assert before[1] != after[1]


def test_two_level_fanout_layout(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "layout"})
    cache.put(key, b"x")
    assert os.path.exists(os.path.join(cache.root, "objects",
                                       key[:2], key[2:]))


def test_no_temp_files_left_behind(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "tmp-check"})
    cache.put(key, b"x" * 4096)
    leftovers = [name for _, _, names in os.walk(cache.root)
                 for name in names if name.startswith(".tmp-")]
    assert leftovers == []


def test_bitstream_cache_reconstructs_exactly(tmp_path):
    cache = _cache(tmp_path)
    spec = BitstreamSpec(size=DataSize.from_kb(6.5), seed=77)
    stats = CacheStats()
    first = cache.load_bitstream(spec, stats)
    assert (stats.hits, stats.misses) == (0, 1)
    second = cache.load_bitstream(spec, stats)
    assert (stats.hits, stats.misses) == (1, 1)

    reference = generate_bitstream(spec)
    for bitstream in (first, second):
        assert bitstream.raw_bytes == reference.raw_bytes
        assert bitstream.file_bytes == reference.file_bytes
        assert bitstream.frame_payload == reference.frame_payload
        assert bitstream.frame_count == reference.frame_count
        assert (bitstream.frame_payload_offset
                == reference.frame_payload_offset)
        assert (bitstream.frame_payload_words
                == reference.frame_payload_words)
        assert bitstream.header == reference.header


def test_compressed_payload_cache_matches_direct_measure(tmp_path):
    from repro.compress import codec_by_name
    cache = _cache(tmp_path)
    spec = BitstreamSpec(size=DataSize.from_kb(6.5), seed=77)
    stats = CacheStats()
    cold = cache.load_compressed(spec, "RLE", stats)
    warm = cache.load_compressed(spec, "RLE", stats)
    assert cold == warm
    direct = codec_by_name("RLE").measure(
        generate_bitstream(spec).raw_bytes)
    assert cold == direct


def test_record_roundtrip_preserves_floats_exactly(tmp_path):
    cache = _cache(tmp_path)
    params = {"kind": "run-record", "cell": 1}
    record = {"effective_mbps": 1147.7340271238381,
              "duration_ps": 5799253, "verified": True}
    cache.store_record(params, record)
    assert cache.load_record(params) == record


def test_clear_empties_the_store(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "clear-me"})
    cache.put(key, b"x")
    cache.clear()
    assert cache.get(key) is None
