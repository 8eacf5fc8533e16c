"""rtp.files.writing: every file rtp writes lands whole or not at all."""

import os
import stat

import pytest

from rtp.files import writing


def names(directory):
    return sorted(path.name for path in directory.iterdir())


def test_writes_the_text_as_given(tmp_path):
    out = tmp_path / "out.csv"
    with writing(out) as handle:
        handle.write("a,b\r\n1,2\n")
    assert out.read_bytes() == b"a,b\r\n1,2\n"  # no line-end translation
    assert names(tmp_path) == ["out.csv"]


def test_a_failure_leaves_the_old_file_and_no_temporary(tmp_path):
    out = tmp_path / "out.csv"
    out.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="half way"):
        with writing(out) as handle:
            handle.write("new\n" * 10_000)
            raise RuntimeError("half way")
    assert out.read_bytes() == b"old\n"
    assert names(tmp_path) == ["out.csv"]


def test_a_failure_leaves_no_new_file(tmp_path):
    with pytest.raises(RuntimeError):
        with writing(tmp_path / "out.csv"):
            raise RuntimeError
    assert names(tmp_path) == []


def test_a_new_file_gets_the_mode_open_gives(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    with writing(tmp_path / "written"):
        pass
    assert (tmp_path / "written").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_a_replaced_file_keeps_its_mode(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("{}\n")
    out.chmod(0o640)
    with writing(out) as handle:
        handle.write("[]\n")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text() == "[]\n"


def test_a_symlink_target_is_written_through(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    with writing(link) as handle:
        handle.write("new\n")
    assert link.is_symlink() and real.read_text() == "new\n"
    assert names(tmp_path) == ["link.csv", "real.csv"]


def test_a_device_is_written_in_place():
    with writing(os.devnull) as handle:
        handle.write("discarded\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("template", ["/dev/fd/{}", "/proc/self/fd/{}"])
def test_a_descriptor_is_written_through_and_left_open(tmp_path, template):
    log = tmp_path / "log"
    log.write_text("earlier\n")
    descriptor = os.open(log, os.O_WRONLY | os.O_APPEND)
    try:
        with writing(template.format(descriptor)) as handle:
            handle.write("written\n")
        os.write(descriptor, b"after\n")
    finally:
        os.close(descriptor)
    assert log.read_text() == "earlier\nwritten\nafter\n"
    assert names(tmp_path) == ["log"]


def test_a_chain_of_links_to_a_descriptor_is_written_through(tmp_path):
    # Each relative hop is resolved against its own link's directory.
    log = tmp_path / "log"
    log.write_text("earlier\n")
    (tmp_path / "sub").mkdir()
    descriptor = os.open(log, os.O_WRONLY | os.O_APPEND)
    try:
        (tmp_path / "outer").symlink_to(f"/dev/fd/{descriptor}")
        (tmp_path / "sub" / "inner").symlink_to("../outer")
        (tmp_path / "link").symlink_to("sub/inner")
        with writing(tmp_path / "link") as handle:
            handle.write("written\n")
    finally:
        os.close(descriptor)
    assert log.read_text() == "earlier\nwritten\n"
    assert names(tmp_path) == ["link", "log", "outer", "sub"]


def test_a_loop_of_links_is_an_error(tmp_path):
    (tmp_path / "a").symlink_to("b")
    (tmp_path / "b").symlink_to("a")
    with pytest.raises(OSError):
        with writing(tmp_path / "a"):
            pass


def test_a_closed_descriptor_is_named_in_the_error():
    descriptor = os.open(os.devnull, os.O_WRONLY)
    os.close(descriptor)
    with pytest.raises(OSError) as caught:
        with writing(f"/dev/fd/{descriptor}"):
            pass
    assert caught.value.filename == f"/dev/fd/{descriptor}"


def test_an_unwritable_target_is_named_in_the_error(tmp_path):
    out = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as caught:
        with writing(out):
            pass
    assert caught.value.filename == str(out)
