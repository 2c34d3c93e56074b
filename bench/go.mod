module hpcpower/bench

go 1.22

require hpcpower v0.0.0

replace hpcpower => ../
