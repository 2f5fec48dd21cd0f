"""Open-loop submission: a job that arrives mid-run sees the load it lands on."""

from repro.envs.environments import EnvKind, make_environment
from repro.util.units import KiB, MiB

from conftest import simple_task

CHUNK = KiB(64)


class TestRunArrivals:
    def test_late_arrivals_see_loaded_node(self):
        """A job arriving while a rival saturates bandwidth runs slower
        than one arriving after the rival finished."""
        from repro.util.units import GBps

        def dm(name):
            return simple_task(
                name, footprint=MiB(1), base_time=4.0,
                lat_frac=0.0, bw_frac=0.9, demand_bandwidth=GBps(90.0),
            )

        env = make_environment(EnvKind.IE, dram_capacity=MiB(64), chunk_size=CHUNK)
        late_job = dm("late")
        env.engine.schedule(30.0, lambda: env.scheduler.submit(late_job), "arrival.late")
        env.scheduler.submit_batch([dm("hog"), dm("early")])
        # run to the late arrival first: the batch alone is done before it
        env.engine.run(until=30.0)
        env.scheduler.run_to_completion()
        metrics = env.metrics
        early = metrics.get("early").execution_time
        late = metrics.get("late").execution_time
        assert early > late
        env.stop()
