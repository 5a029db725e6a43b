module noftl/bench

go 1.23

require noftl v0.0.0

replace noftl => ../
