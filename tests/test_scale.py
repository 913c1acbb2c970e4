"""repro.scale: determinism, cache correctness, CLI parity."""

import json
import os
import random

import pytest

from repro.core import (AugmentationPipeline, PipelineConfig, augment_file,
                        content_seed)
from repro.corpus import generate_corpus
from repro.scale import (CorpusStore, ResultCache, augment_distributed,
                         sha256_text, shard_key, shard_of_path)

CONFIG = PipelineConfig(eda_scripts=False, statement_cap=8, token_cap=16)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for index, text in enumerate(generate_corpus(10, seed=0)):
        (root / f"design_{index}.v").write_text(text)
    return root


def _paths(corpus_dir):
    return sorted(str(p) for p in corpus_dir.iterdir())


class TestContentSeeding:
    def test_seed_depends_on_content_not_position(self):
        a, b = generate_corpus(2, seed=0)
        assert content_seed(a) != content_seed(b)
        assert content_seed(a) == content_seed(a)

    def test_pipeline_is_order_invariant_per_file(self):
        corpus = generate_corpus(6, seed=3)
        shuffled = corpus[:]
        random.Random(1).shuffle(shuffled)
        original = {sha256_text(t): augment_file(t, CONFIG) for t in corpus}
        for text in shuffled:
            assert augment_file(text, CONFIG) == original[sha256_text(text)]

    def test_run_matches_augment_file(self):
        corpus = generate_corpus(3, seed=2)
        report = AugmentationPipeline(CONFIG).run(corpus)
        expected = [r for t in corpus for r in augment_file(t, CONFIG)
                    if r.approx_tokens <= CONFIG.max_tokens]
        assert report.dataset.records == expected


class TestCorpusStore:
    def test_discovers_directory_and_explicit_files(self, corpus_dir):
        store = CorpusStore([str(corpus_dir)])
        assert [s.path for s in store.discover()] == _paths(corpus_dir)
        explicit = CorpusStore(_paths(corpus_dir))
        assert ([s.digest for s in explicit.discover()]
                == [s.digest for s in store.discover()])

    def test_shard_assignment_is_path_stable(self, corpus_dir):
        path = _paths(corpus_dir)[0]
        assert shard_of_path(path, 16) == shard_of_path(path, 16)
        assert 0 <= shard_of_path(path, 4) < 4

    def test_merge_order_is_input_order_invariant(self, corpus_dir):
        forward = CorpusStore(_paths(corpus_dir)).merge_order()
        backward = CorpusStore(_paths(corpus_dir)[::-1]).merge_order()
        assert [s.digest for s in forward] == [s.digest for s in backward]


class TestDistributedEquivalence:
    def test_matches_serial_pipeline_byte_identical(self, corpus_dir):
        paths = _paths(corpus_dir)
        texts = sorted((open(p).read() for p in paths), key=sha256_text)
        serial = AugmentationPipeline(CONFIG).run(texts)
        dist = augment_distributed(paths, CONFIG, jobs=4)
        assert dist.dataset.to_jsonl() == serial.dataset.to_jsonl()
        assert dist.raw_count == serial.raw_count
        assert dist.per_task == serial.per_task

    def test_jobs_and_shuffle_invariant(self, corpus_dir, tmp_path):
        paths = _paths(corpus_dir)
        shuffled = paths[:]
        random.Random(9).shuffle(shuffled)
        one = augment_distributed(paths, CONFIG, jobs=1, num_shards=4)
        four = augment_distributed(shuffled, CONFIG, jobs=4, num_shards=8)
        assert one.dataset.to_jsonl() == four.dataset.to_jsonl()

    def test_duplicate_content_handled(self, tmp_path):
        text = generate_corpus(1, seed=5)[0]
        for name in ("a.v", "b.v"):
            (tmp_path / name).write_text(text)
        report = augment_distributed([str(tmp_path)], CONFIG, jobs=2)
        per_file = [r for r in augment_file(text, CONFIG)
                    if r.approx_tokens <= CONFIG.max_tokens]
        assert report.dataset.records == per_file + per_file


class TestResultCache:
    def _fresh_corpus(self, tmp_path, count=8):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for index, text in enumerate(generate_corpus(count, seed=4)):
            (corpus / f"d{index}.v").write_text(text)
        return corpus

    def test_warm_run_recomputes_nothing(self, tmp_path):
        corpus = self._fresh_corpus(tmp_path)
        cache = str(tmp_path / ".cache")
        cold = augment_distributed([str(corpus)], CONFIG, jobs=2,
                                   cache_dir=cache)
        warm = augment_distributed([str(corpus)], CONFIG, jobs=2,
                                   cache_dir=cache)
        assert cold.shards_computed == cold.shards_total > 0
        assert warm.shards_computed == 0
        assert warm.cache_misses == 0
        assert warm.cache_hits == warm.shards_total
        assert warm.dataset.to_jsonl() == cold.dataset.to_jsonl()
        manifest = json.loads(
            (tmp_path / ".cache" / "manifest.json").read_text())
        assert manifest["last_run"] == {"hits": warm.cache_hits,
                                       "misses": 0}

    def test_touching_one_file_invalidates_exactly_one_shard(self,
                                                             tmp_path):
        corpus = self._fresh_corpus(tmp_path)
        cache = str(tmp_path / ".cache")
        augment_distributed([str(corpus)], CONFIG, cache_dir=cache)
        victim = sorted(corpus.iterdir())[0]
        victim.write_text(victim.read_text() + "\n// touched\n")
        after = augment_distributed([str(corpus)], CONFIG, cache_dir=cache)
        assert after.shards_computed == 1
        assert after.cache_misses == 1

    def test_config_change_invalidates_everything(self, tmp_path):
        corpus = self._fresh_corpus(tmp_path, count=4)
        cache = str(tmp_path / ".cache")
        augment_distributed([str(corpus)], CONFIG, cache_dir=cache)
        other = PipelineConfig(eda_scripts=False, statement_cap=8,
                               token_cap=16, repair_variants=2)
        rerun = augment_distributed([str(corpus)], other, cache_dir=cache)
        assert rerun.shards_computed == rerun.shards_total

    def test_config_change_prunes_stale_shard_files(self, tmp_path):
        corpus = self._fresh_corpus(tmp_path, count=6)
        cache_dir = tmp_path / ".cache"
        first = augment_distributed([str(corpus)], CONFIG,
                                    cache_dir=str(cache_dir))
        other = PipelineConfig(eda_scripts=False, statement_cap=8,
                               token_cap=16, repair_variants=2)
        second = augment_distributed([str(corpus)], other,
                                     cache_dir=str(cache_dir))
        shard_files = list((cache_dir / "shards").iterdir())
        assert len(shard_files) == second.shards_total
        assert first.shards_total == second.shards_total

    def test_shard_key_ignores_member_order(self):
        fp = CONFIG.fingerprint()
        assert shard_key(fp, ["b", "a"]) == shard_key(fp, ["a", "b"])
        assert shard_key(fp, ["a"]) != shard_key(fp, ["a", "b"])

    def test_corrupt_shard_file_is_a_miss(self, tmp_path):
        corpus = self._fresh_corpus(tmp_path, count=4)
        cache_dir = tmp_path / ".cache"
        augment_distributed([str(corpus)], CONFIG, cache_dir=str(cache_dir))
        for shard_file in (cache_dir / "shards").iterdir():
            shard_file.write_text("{not json")
        rerun = augment_distributed([str(corpus)], CONFIG,
                                    cache_dir=str(cache_dir))
        assert rerun.shards_computed == rerun.shards_total
        assert rerun.cache_hits == 0


class TestDatasetSave:
    def test_creates_parent_directories(self, tmp_path):
        from repro.core import Dataset
        target = tmp_path / "deep" / "nested" / "out.jsonl"
        Dataset().save(str(target))
        assert target.exists()

    def test_atomic_no_temp_left_behind(self, tmp_path):
        report = AugmentationPipeline(CONFIG).run(generate_corpus(2,
                                                                  seed=0))
        target = tmp_path / "out.jsonl"
        report.dataset.save(str(target))
        report.dataset.save(str(target))    # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
        lines = target.read_text().splitlines()
        assert len(lines) == len(report.dataset)


class TestCli:
    def test_augment_and_dist_outputs_byte_identical(self, corpus_dir,
                                                     tmp_path, capsys):
        from repro.cli import main
        serial_out = str(tmp_path / "serial.jsonl")
        dist_out = str(tmp_path / "dist.jsonl")
        assert main(["augment", *_paths(corpus_dir),
                     "--out", serial_out]) == 0
        assert main(["augment", str(corpus_dir), "--jobs", "4",
                     "--cache-dir", str(tmp_path / ".cache"),
                     "--out", dist_out]) == 0
        capsys.readouterr()
        assert (open(serial_out, "rb").read()
                == open(dist_out, "rb").read())

    def test_dist_reports_cache_summary(self, corpus_dir, tmp_path,
                                        capsys):
        from repro.cli import main
        cache = str(tmp_path / ".cache")
        main(["augment", str(corpus_dir), "--cache-dir", cache])
        main(["augment", str(corpus_dir), "--cache-dir", cache])
        output = capsys.readouterr().out
        assert "0 miss(es)" in output
        assert "0 computed" in output
