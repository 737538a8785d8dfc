"""Regenerate Table III (trajectory recovery effectiveness): 10 methods x
4 cities x {recall, precision, F1, accuracy, MAE, RMSE}.

Usage: python jobs/table3_recovery.py [--n-traj 700] [--cities pt,xa]
"""
from _common import finish, job_args, make_spark


def main() -> None:
    args = job_args("Table III: trajectory recovery")
    spark = make_spark("table3")
    from repro.evalx.metrics import RECOVERY_METRIC_COLS
    from repro.evalx.tables import per_city, table3_city, table_markdown

    data = per_city(spark, lambda city: table3_city(spark, city, seed=args.seed, verbose=args.verbose),
                    args.n_traj, tuple(args.cities.split(",")), args.seed)
    finish("table3", data, args.out, table_markdown(data, RECOVERY_METRIC_COLS))
    spark.stop()


if __name__ == "__main__":
    main()
