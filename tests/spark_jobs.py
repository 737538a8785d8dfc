"""Run a block of Spark work under its own job group and read back what
Spark ran for it, from the status tracker."""


def run_in_job_group(spark, group: str, thunk):
    """``(thunk(), job ids, stage infos)`` for the jobs ``thunk`` started,
    tagged with job group ``group``; the group is cleared afterwards."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = thunk()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = sorted(tracker.getJobIdsForGroup(group))
    stages = [tracker.getStageInfo(s) for j in jobs for s in tracker.getJobInfo(j).stageIds]
    return out, jobs, [s for s in stages if s is not None]
