"""Worker processes for the realizations of a pooled benchmark or sweep
(`experiments`).  Nothing else starts a process: `approximate` encodes
its skeleton JSON in the calling process and streams it to its output
(`lowrank.write_skeleton_json`), never holding the whole document.

Workers are forked from the standard library's fork server, run one
BLAS thread each and are shut down before `pool_map` returns.

`multiprocessing` and `concurrent.futures` are imported only by the
functions that start workers (`pool_map` with more than one worker,
`_worker_context`, `_await_fork_server_exit`), so a serial run loads
neither.  `ProcessPoolExecutor` and `BrokenProcessPool` are module
attributes that import on first access (`__getattr__`).
"""
from __future__ import annotations

import contextlib
import os
import sys
import time

__all__ = ["BLAS_THREAD_VARS", "pool_map"]

# Set to "1" while a worker pool starts, so that each worker runs one BLAS thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def __getattr__(name: str):
    """`ProcessPoolExecutor` and `BrokenProcessPool` from
    `concurrent.futures.process`, imported when first read."""
    if name in ("ProcessPoolExecutor", "BrokenProcessPool"):
        from concurrent.futures import process

        return getattr(process, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_context() -> multiprocessing.context.BaseContext:
    """The start method of pooled runs' workers: the fork server, where
    the platform has one, else spawn.  Call it inside `_worker_environ`.

    The fork server is started here by the first pooled run, imports the
    modules whose functions workers run (`experiments`, which imports
    `lowrank` and numpy) and `numpy.random`, which numpy imports only on
    first use, once, and lives until the calling process exits.  Every
    later run forks its workers from it, so they start with numpy loaded
    and leave without tearing an interpreter down.  The server runs one
    thread (numpy with one BLAS thread, see `_worker_environ`), so forking
    it is safe where forking the caller is not.  It is started afresh if
    it has died.  The server is process-wide: one that other code started
    first keeps its own environment and preloads.

    The server, the resource tracker it starts and the workers forked from
    it have stdout on os.devnull (`_stdout_on_devnull`); stderr is the
    caller's, so worker tracebacks still show.
    """
    import multiprocessing
    import multiprocessing.forkserver

    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([f"{__package__}.experiments", "numpy.random"])
    with _stdout_on_devnull():
        multiprocessing.forkserver.ensure_running()
    return context


@contextlib.contextmanager
def _stdout_on_devnull():
    """Point file descriptor 1 at os.devnull for the with block, after
    flushing sys.stdout, then point it back.

    A process started in the block does not hold the caller's stdout.  A
    fork server that did would keep a pipe reading the caller's output
    open after the caller exits, until the server itself exits.  A caller
    whose descriptor 1 is closed has no stdout to hold, and the block
    changes nothing.
    """
    if sys.stdout is not None:
        sys.stdout.flush()
    try:
        saved = os.dup(1)
    except OSError:  # descriptor 1 is closed
        saved = None
    if saved is None:
        yield
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


@contextlib.contextmanager
def _worker_environ():
    """Set the BLAS thread variables to "1" and put this package's
    directory first on PYTHONPATH for the with block, then restore each
    (set or absent) exactly.

    The fork server, or a spawned worker, takes the environment it starts
    with, and the executor starts workers in `submit`, so the pool runs
    inside this block.  Numpy is then loaded with one BLAS thread in every
    worker.  PYTHONPATH lets the fork server import this package: Python
    3.11's server does not take the caller's sys.path.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    saved = {var: os.environ.get(var) for var in (*BLAS_THREAD_VARS, "PYTHONPATH")}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([saved["PYTHONPATH"]] if saved["PYTHONPATH"] else [])
    )
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


def _await_fork_server_exit() -> None:
    """Wait, up to a second, until the fork server that closed its socket
    has exited.

    The server closes its socket while it exits, before `waitpid` reports
    it dead; a run started in between would find it alive and connect to
    the closed socket (ConnectionRefusedError) instead of starting a new
    server.  The exit status is left for the standard library to collect.
    """
    import multiprocessing.forkserver

    pid = multiprocessing.forkserver._forkserver._forkserver_pid
    deadline = time.monotonic() + 1.0
    while pid is not None and time.monotonic() < deadline:
        try:
            if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
                return
        except ChildProcessError:  # already collected
            return
        time.sleep(0.001)


def pool_map(fn, items: list, workers: int) -> list:
    """`[fn(item) for item in items]`, on `workers` processes when it is
    more than 1, else in the calling process.

    `fn` and the items must pickle.  A worker that dies raises
    BrokenProcessPool (a RuntimeError) here, as does a fork server that
    dies while this call starts a worker; the next call starts a new
    server.

    The serial case imports nothing.  With more workers, the first call
    of the process imports `multiprocessing`, its fork server and
    `concurrent.futures.process` (20 to 30 ms on 2 CPUs).
    """
    if workers == 1:
        return list(map(fn, items))
    pool_module = sys.modules[__name__]  # names read here go through __getattr__
    with _worker_environ(), pool_module.ProcessPoolExecutor(
        workers, mp_context=_worker_context()
    ) as pool:
        try:
            results = pool.map(fn, items)
        except EOFError as exc:  # from the fork server's closed socket
            _await_fork_server_exit()
            raise pool_module.BrokenProcessPool(
                "the fork server exited while starting a worker"
            ) from exc
        return list(results)
