import pytest

from vtrim.atomic import atomic_write


@pytest.mark.parametrize("binary,payload", [(False, "héllo\n"), (True, b"\x00\xff")])
def test_atomic_write_replaces_target_on_success(tmp_path, binary, payload):
    path = tmp_path / "out"
    path.write_bytes(b"old")
    with atomic_write(str(path), binary=binary) as f:
        f.write(payload)
        assert path.read_bytes() == b"old"  # nothing visible until the block ends
    got = path.read_bytes() if binary else path.read_text(encoding="utf-8")
    assert got == payload
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("existing", [False, True])
def test_atomic_write_failure_leaves_target_untouched(tmp_path, binary, existing):
    path = tmp_path / "out"
    if existing:
        path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path), binary=binary) as f:
            f.write(b"partial" if binary else "partial")
            raise RuntimeError("fails part-way through")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out"] if existing else [])
    if existing:
        assert path.read_bytes() == b"old"
