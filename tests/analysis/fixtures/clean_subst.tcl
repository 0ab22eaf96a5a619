# Fixture: command substitution inside words -> no diagnostics, and the
# interpreter runs it (x=a3, y=v=2, z=37, w="a btailc d").
set x a[expr 1 + 2]
set y "v=[string length "ab"]"
set z [expr 1 + 2][expr 3 + 4]
set w [list a b]tail[list c d]
puts "$x $y $z $w"
