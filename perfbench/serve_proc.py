"""The server under test, in its own process.

Usage: ``python3 perfbench/serve_proc.py '<ServeConfig fields as JSON>' <traced 0|1>``

Prints ``READY <port>`` once the server accepts connections, then
serves until its standard input closes, and stops cleanly.  With
``traced`` 1 the server keeps a ``MetricsRegistry`` that clients read
through the ``metrics`` op; otherwise it runs on the NullRegistry.
"""

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.registry import MetricsRegistry  # noqa: E402
from repro.serve.server import ServeConfig, StreamServer  # noqa: E402


async def main(fields: dict, traced: bool) -> None:
    server = StreamServer(
        ServeConfig(**fields), metrics=MetricsRegistry() if traced else None
    )
    await server.start()
    try:
        print(f"READY {server.port}", flush=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.buffer.read)
    finally:
        await server.stop()


if __name__ == "__main__":
    asyncio.run(main(json.loads(sys.argv[1]), sys.argv[2] == "1"))
