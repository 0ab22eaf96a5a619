# Fixture: substitution inside words -> no diagnostics, and the interpreter
# runs it (x=a3, y=v=3, z=33xc7k70t, w="a b c").
set n 3
set part xc7k70t
set x a[set n]
set y "v=[set m $n]"
set z [set n][set m]${part}
set w "a [set q b] c"
