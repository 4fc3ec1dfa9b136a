module dbest/bench

go 1.24

require dbest v0.0.0

replace dbest => ../
