module tcptrim/bench

go 1.22

require tcptrim v0.0.0

replace tcptrim => ../
