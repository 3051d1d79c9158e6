"""Tests for the verification driver behind verify-paper."""

from symlen import builders, checks


def test_determinism_check_starts_cold(monkeypatch):
    cache_sizes = []

    def fake_report(max_d, seed, progress=None):
        cache_sizes.append(len(builders._CACHE))
        builders.build_from_text("laurent(F2)")
        return {"max_d": max_d, "seed": seed, "checks": []}

    # a private cache, so that the schemes other tests built stay cached
    monkeypatch.setattr(builders, "_CACHE", {})
    monkeypatch.setattr(checks, "build_report", fake_report)
    report = checks.run_verification(max_d=1)
    assert cache_sizes == [0, 0]
    assert len(builders._CACHE) > 0
    assert report["all_passed"] and report["checks"][-1]["repeat_identical"]
