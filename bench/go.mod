module baywatch/bench

go 1.22

require baywatch v0.0.0

replace baywatch => ../
