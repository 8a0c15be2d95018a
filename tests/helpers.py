"""Shared test helpers."""

import csv


def read_report_csv(path) -> list[dict]:
    """The rows of a report.csv, with MAX/MIN/AVE parsed back to floats."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            {"method": row["method"], "max": float(row["max"]),
             "min": float(row["min"]), "ave": float(row["ave"])}
            for row in csv.DictReader(fh)
        ]
