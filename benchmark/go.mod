module github.com/aisle-sim/aisle/benchmark

go 1.22

require github.com/aisle-sim/aisle v0.0.0

replace github.com/aisle-sim/aisle => ../
