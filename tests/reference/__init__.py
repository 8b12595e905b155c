"""Reference semantics the engine is tested against.

Nothing here imports ``repro.gsql.codegen`` or ``repro.operators``: a
reference that shared the engine's code would agree with its bugs.
"""
