"""Regenerate Table V (map matching effectiveness): 7 methods x 4 cities x
{precision, recall, F1, Jaccard}.

Usage: python jobs/table5_map_matching.py [--n-traj 700]
"""
from _common import finish, job_args, make_spark


def main() -> None:
    args = job_args("Table V: map matching")
    spark = make_spark("table5")
    from repro.evalx.tables import ROUTE_METRIC_COLS, per_city, table5_city, table_markdown

    data = per_city(spark, lambda city: table5_city(spark, city, seed=args.seed, verbose=args.verbose),
                    args.n_traj, tuple(args.cities.split(",")), args.seed)
    finish("table5", data, args.out, table_markdown(data, ROUTE_METRIC_COLS))
    spark.stop()


if __name__ == "__main__":
    main()
