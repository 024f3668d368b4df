module lakeharbor/lakebench

go 1.22

require lakeharbor v0.0.0

replace lakeharbor => ../
