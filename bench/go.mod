module recsys/bench

go 1.22

require recsys v0.0.0

replace recsys => ../
