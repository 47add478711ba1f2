module approxql/benchmark

go 1.23

require approxql v0.0.0

replace approxql => ../
