module manetp2p/benchmark

go 1.22

require manetp2p v0.0.0

replace manetp2p => ../
