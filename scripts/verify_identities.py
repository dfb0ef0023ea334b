#!/usr/bin/env python3
"""Run the full comparison-map identity suite and report per identity.

Usage: python scripts/verify_identities.py [--m-max M] [--n-max N]
"""

import argparse
import sys
import time

from steiner_lab import verify_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=3)
    args = parser.parse_args()

    started = time.time()
    try:
        report = verify_suite(args.m_max, args.n_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(report)
    status = "ALL PASS" if report.all_passed else "FAILURES PRESENT"
    print(f"{status} ({len(report.results)} identities, {time.time() - started:.1f}s)")
    sys.exit(0 if report.all_passed else 1)


if __name__ == "__main__":
    main()
