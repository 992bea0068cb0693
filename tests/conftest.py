import scoreboard


def pytest_terminal_summary(terminalreporter):
    if not scoreboard.LINES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance scorecard:")
    for line in scoreboard.LINES:
        terminalreporter.write_line(f"  {line}")
