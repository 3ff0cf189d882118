# Common entry points; see README.md for the per-figure tools.

.PHONY: check test

# The full pre-merge gate: build, vet, race-enabled tests.
check:
	./check.sh

test:
	go test ./...
