"""Engine tests.

A package, so that ``test_executor`` here imports as
``engine.test_executor`` and does not collide with
``tests/dist/test_executor.py`` when the whole suite is collected.
"""
