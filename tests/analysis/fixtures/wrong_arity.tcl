# Fixture: set takes a name and at most one value -> tcl-wrong-arity.
set part xc7k70t xc7a35t
