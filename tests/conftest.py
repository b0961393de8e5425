"""Gathers the acceptance suite's result lines into one section of the
terminal summary.

Each acceptance test prints one line that starts with ``ACCEPTANCE``; the
plugin below reads those lines from each test's captured output, so no test
imports this module by name (``perfbench/tests`` has a conftest of its own).
Under ``-s`` nothing is captured, and the lines show only where they are
printed.
"""


class _AcceptanceLines:
    def __init__(self):
        self.lines: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            self.lines += [
                line for line in report.capstdout.splitlines() if line.startswith("ACCEPTANCE ")
            ]

    def pytest_terminal_summary(self, terminalreporter):
        if self.lines:
            terminalreporter.section("acceptance criteria")
            for line in self.lines:
                terminalreporter.write_line(line)


def pytest_configure(config):
    config.pluginmanager.register(_AcceptanceLines(), "sparselms-acceptance-lines")
