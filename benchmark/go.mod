module github.com/bamboo-bft/bamboo/benchmark

go 1.22

require github.com/bamboo-bft/bamboo v0.0.0

replace github.com/bamboo-bft/bamboo => ../
