module bespokv/benchmark

go 1.22

require bespokv v0.0.0

replace bespokv => ../
