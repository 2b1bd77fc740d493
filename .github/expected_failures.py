"""Exit non-zero unless exactly the named test cases failed in a JUnit XML report.

Usage: python .github/expected_failures.py REPORT_XML [TEST_ID ...]

A test id is ``classname::name`` as pytest's ``--junitxml`` report writes
it, for example ``tests.test_acceptance::test_criterion_02b_slope_over_n_constant``;
an error counts as a failure.
"""

import sys
import xml.etree.ElementTree as ET


def main(argv: list):
    report, expected = argv[0], set(argv[1:])
    cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    print(f"{len(cases)} test cases, failed: {sorted(failed)}")
    if failed != expected:
        return f"expected exactly {sorted(expected)} to fail"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
