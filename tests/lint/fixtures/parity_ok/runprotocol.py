"""Shared run protocol — reads here count for both engines."""


def measure_target(config):
    return config.run.measure
