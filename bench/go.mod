module gbmqo/bench

go 1.22

require gbmqo v0.0.0

replace gbmqo => ../
