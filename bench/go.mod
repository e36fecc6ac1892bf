module consensusinside/bench

go 1.24

require consensusinside v0.0.0

replace consensusinside => ../
