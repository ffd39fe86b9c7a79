import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from causalcdr import matrixio


@pytest.fixture
def container(tmp_path):
    path = tmp_path / "small.nmc"
    matrices = {"a": np.arange(6, dtype=float).reshape(2, 3),
                "b": np.array([[-1.5]]), "empty": np.zeros((0, 4))}
    matrixio.write_container(path, matrices, meta={"seed": "7", "note": "x"})
    return path, matrices


def test_round_trip(container):
    path, matrices = container
    loaded, meta = matrixio.read_container(path)
    assert meta == {"seed": "7", "note": "x"}
    assert loaded.keys() == matrices.keys()
    for name, matrix in matrices.items():
        assert loaded[name].shape == matrix.shape
        assert np.array_equal(loaded[name], matrix)


def test_every_truncation_raises_container_error(container, tmp_path):
    path, _ = container
    blob = path.read_bytes()
    cut = tmp_path / "cut.nmc"
    for length in range(len(blob)):
        cut.write_bytes(blob[:length])
        with pytest.raises(matrixio.ContainerError):
            matrixio.read_container(cut)


def test_truncation_names_the_offset(container, tmp_path):
    path, _ = container
    cut = tmp_path / "cut.nmc"
    cut.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(matrixio.ContainerError, match="truncated"):
        matrixio.read_container(cut)


@pytest.mark.parametrize("extra", [b"\0", b"NMC1", b"\xff" * 9])
def test_trailing_bytes_rejected(container, tmp_path, extra):
    path, _ = container
    padded = tmp_path / "padded.nmc"
    padded.write_bytes(path.read_bytes() + extra)
    with pytest.raises(matrixio.ContainerError, match="trailing"):
        matrixio.read_container(padded)


def test_name_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "m.nmc"
    matrixio.write_container(path, {"ab": np.ones((1, 1))})
    blob = path.read_bytes().replace(b"ab", b"\xff\xfe")
    path.write_bytes(blob)
    with pytest.raises(matrixio.ContainerError, match="utf-8"):
        matrixio.read_container(path)


def test_repeated_names_rejected_with_their_offset(tmp_path):
    path = tmp_path / "m.nmc"
    matrixio.write_container(path, {"m": np.ones((1, 1)), "n": np.ones((1, 1))},
                             meta={"p": "1", "q": "2"})
    blob = path.read_bytes()
    # magic, meta count, entry "p"; then matrix count, matrix "m"
    second_key = 4 + 4 + (2 + 1 + 4 + 1)
    second_matrix = second_key + (2 + 1 + 4 + 1) + 4 + (2 + 1 + 8 + 8)
    path.write_bytes(blob.replace(b"\x01\x00q", b"\x01\x00p"))
    with pytest.raises(matrixio.ContainerError,
                       match=f"metadata key 'p' repeated at offset {second_key}$"):
        matrixio.read_container(path)
    path.write_bytes(blob.replace(b"\x01\x00n", b"\x01\x00m"))
    with pytest.raises(matrixio.ContainerError,
                       match=f"matrix 'm' repeated at offset {second_matrix}$"):
        matrixio.read_container(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                min_size=1, max_size=4))
def test_flipped_bytes_read_or_raise_container_error(container, tmp_path, flips):
    path, _ = container
    blob = bytearray(path.read_bytes())
    for at, mask in flips:
        blob[at % len(blob)] ^= mask
    flipped = tmp_path / "flipped.nmc"
    flipped.write_bytes(bytes(blob))
    try:
        matrixio.read_container(flipped)
    except matrixio.ContainerError:
        pass
