"""The CLI's commands, one module each.

`cli` imports only the module of the command it runs (all six for the
top-level help), and each module's docstring is its command's help line.
"""
