"""The driver heap ``local_spark`` asks for fits the machine."""
import pytest

from repro import session


def meminfo_kib(path="/proc/meminfo") -> int:
    with open(path) as f:
        return next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))


def gigabytes(heap: str) -> int:
    assert heap.endswith("g"), heap
    return int(heap[:-1])


@pytest.fixture
def no_limit(monkeypatch, tmp_path):
    """No ``SPARK_DRIVER_MEM`` and no readable cgroup limit."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setattr(session, "CGROUP_LIMITS", (str(tmp_path / "memory.max"), str(tmp_path / "limit")),
                        raising=False)
    return tmp_path


def test_heap_without_cgroup_limit_fits_physical_memory(no_limit):
    assert gigabytes(session._driver_memory()) * (1 << 20) <= meminfo_kib()


@pytest.mark.parametrize("kib,heap", [(1 << 20, "2g"), (16456384, "7g"), (64 << 20, "8g")])
def test_heap_from_meminfo_is_half_clamped(no_limit, monkeypatch, kib, heap):
    fake = no_limit / "meminfo"
    fake.write_text(f"MemTotal:       {kib} kB\nMemFree:        1024 kB\n")
    monkeypatch.setattr(session, "MEMINFO", str(fake))
    assert session._driver_memory() == heap


def test_cgroup_limit_then_env_take_precedence(no_limit, monkeypatch):
    (no_limit / "memory.max").write_text(str(4 << 30))
    assert session._driver_memory() == "3g"
    (no_limit / "memory.max").write_text("max")
    monkeypatch.setattr(session, "MEMINFO", str(no_limit / "absent"))
    assert session._driver_memory() == "2g"
    monkeypatch.setenv("SPARK_DRIVER_MEM", "5g")
    assert session._driver_memory() == "5g"
