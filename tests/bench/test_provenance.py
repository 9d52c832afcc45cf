"""Provenance stamps: the commit, and whether the tree matched it."""

from __future__ import annotations

import subprocess

import pytest

from repro.bench import provenance as prov


def _git(cwd, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


@pytest.fixture()
def repo(tmp_path, monkeypatch):
    """A one-commit git repository as the working directory."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "init")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGitDirty:
    def test_clean_tree(self, repo):
        stamp = prov.provenance()
        assert stamp["git_dirty"] is False
        assert len(stamp["git_sha"]) == 40

    def test_modified_tracked_file(self, repo):
        (repo / "a.txt").write_text("two\n")
        assert prov.provenance()["git_dirty"] is True

    def test_staged_change(self, repo):
        (repo / "b.txt").write_text("new\n")
        _git(repo, "add", "b.txt")
        assert prov.provenance()["git_dirty"] is True

    def test_untracked_file_does_not_count(self, repo):
        (repo / "b.txt").write_text("new\n")
        assert prov.provenance()["git_dirty"] is False

    def test_unknown_without_git(self, monkeypatch):
        def no_git(*args, **kwargs):
            raise OSError("git not found")

        monkeypatch.setattr(prov.subprocess, "run", no_git)
        stamp = prov.provenance()
        assert stamp["git_sha"] == "unknown"
        assert stamp["git_dirty"] == "unknown"

    def test_stamp_keeps_existing_block(self, repo):
        record = {"provenance": {"git_sha": "abc", "git_dirty": True}}
        assert prov.stamp_record(record)["provenance"] == record["provenance"]
