"""Regenerate Table IV (TRMMA ablation, accuracy %): 8 variants x 4 cities.

Usage: python jobs/table4_ablation.py [--n-traj 700]
"""
from _common import finish, job_args
from repro.evalx.tables import per_city, table4_city, table_markdown
from repro.session import local_spark


def main() -> None:
    args = job_args("Table IV: TRMMA ablation")
    spark = local_spark("table4")
    data = per_city(spark, lambda city: table4_city(spark, city, seed=args.seed, verbose=args.verbose),
                    args.n_traj, tuple(args.cities.split(",")), args.seed)
    finish("table4", data, args.out, table_markdown(data, ["accuracy"]))
    spark.stop()


if __name__ == "__main__":
    main()
