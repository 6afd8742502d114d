module rldecide/bench

go 1.24

require rldecide v0.0.0

replace rldecide => ../
