module parbem/bench

go 1.22

require parbem v0.0.0

replace parbem => ../
