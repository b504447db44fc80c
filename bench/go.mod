module sweepsched/bench

go 1.22

require sweepsched v0.0.0

replace sweepsched => ../
