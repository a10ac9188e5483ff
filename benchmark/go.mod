module kvcsd/benchmark

go 1.22

require kvcsd v0.0.0

replace kvcsd => ../
