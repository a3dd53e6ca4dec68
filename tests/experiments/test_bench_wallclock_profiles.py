"""``bench_wallclock.py --profile --profile-dir DIR`` lists the profiles
it wrote wherever ``DIR`` is: repository-relative inside the repository,
by absolute path outside it.  No arm runs here."""

from benchmarks import bench_wallclock


def _touch(directory, *names):
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        (directory / name).write_bytes(b"")


def test_a_directory_outside_the_repository_is_listed_by_absolute_path(
    tmp_path,
):
    _touch(tmp_path, "recompute_b.prof", "maintain_a.prof", "notes.txt")
    assert not tmp_path.resolve().is_relative_to(bench_wallclock.REPO_ROOT)
    assert bench_wallclock.profile_listing(tmp_path) == [
        str(tmp_path.resolve() / "maintain_a.prof"),
        str(tmp_path.resolve() / "recompute_b.prof"),
    ]


def test_a_directory_inside_the_repository_is_listed_relative_to_it(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(bench_wallclock, "REPO_ROOT", tmp_path.resolve())
    _touch(tmp_path / "results" / "profiles", "b.prof", "a.prof")
    assert bench_wallclock.profile_listing(
        tmp_path / "results" / "profiles"
    ) == ["results/profiles/a.prof", "results/profiles/b.prof"]


def test_an_empty_directory_lists_nothing(tmp_path):
    assert bench_wallclock.profile_listing(tmp_path) == []
