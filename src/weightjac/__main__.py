if __name__ == "__main__":
    import gc

    # as under python -m weightjac.cli: no collection while the CLI loads, and
    # run() turns the collector back on once it has frozen what loaded
    gc.disable()
    from .cli import run

    run()
