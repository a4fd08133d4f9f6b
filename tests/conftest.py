def pytest_configure(config):
    config.addinivalue_line(
        "markers", "usage: the test's argv asks for help or is a usage "
        "error, so argparse reads it")
