// The mediation benchmark is a module of its own so that the repository's
// `go build ./...`, `go test ./...` and `make lint` are untouched by it.
// Its import path is below the repository's, so it may import the
// repository's internal packages; the replace points at the repository.
module wsupgrade/bench

go 1.24

require wsupgrade v0.0.0

replace wsupgrade => ../
