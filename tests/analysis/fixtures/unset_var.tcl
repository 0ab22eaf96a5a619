# Fixture: $flow_dir is read before any set of it -> tcl-unset-var.
set part xc7k70t
set out $flow_dir/$part
