module github.com/oiraid/oiraid/bench

go 1.22

require github.com/oiraid/oiraid v0.0.0

replace github.com/oiraid/oiraid => ../
