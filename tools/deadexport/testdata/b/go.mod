module fix

go 1.24
