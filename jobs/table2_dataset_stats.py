"""Regenerate Table II (dataset statistics) for the 4 synthetic cities.

Usage: python jobs/table2_dataset_stats.py [--n-traj 700]
"""
from _common import finish, job_args, make_spark


def main() -> None:
    args = job_args("Table II: dataset statistics")
    spark = make_spark("table2")
    from repro.evalx.tables import PAPER_TABLE2, per_city, table2_city

    data = per_city(spark, table2_city, args.n_traj, tuple(args.cities.split(",")), args.seed)
    lines = ["| City | Metric | Paper | Ours |", "|---|---|---|---|"]
    for c, stats in data.items():
        for k, v in stats.items():
            pv = PAPER_TABLE2.get(c, {}).get(k, "-")
            vv = f"{v:.2f}" if isinstance(v, float) else v
            lines.append(f"| {c.upper()} | {k} | {pv} | {vv} |")
    finish("table2", data, args.out, "\n".join(lines))
    spark.stop()


if __name__ == "__main__":
    main()
