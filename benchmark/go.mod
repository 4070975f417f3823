module summarycache/benchmark

go 1.22

require summarycache v0.0.0

replace summarycache => ../
