module csar/benchmark

go 1.22

require csar v0.0.0

replace csar => ../
