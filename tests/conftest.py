import threading

import pytest


@pytest.fixture
def serve():
    """``serve(server, batch=1)``: the ``exchange.Server`` answers in a thread
    of its own, from when ``batch`` requests are pending until the test ends."""
    stop, threads = threading.Event(), []

    def run(server, batch):
        while len(server.pending()) < batch and not stop.wait(0.005):
            pass
        server.serve(stop)

    def start(server, batch=1):
        threads.append(threading.Thread(target=run, args=(server, batch), daemon=True))
        threads[-1].start()
        return server

    yield start
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
