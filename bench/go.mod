module beyondbloom/bench

go 1.22

require beyondbloom v0.0.0

replace beyondbloom => ../
