GO ?= go

# Every gate — what it runs, with which -run regex, and why — is defined
# once, in scripts/check.sh; the targets here only name them.
GATES = check vet build test race obs telemetry migrate nemesis crash wirespeed rsm overload rpcwire writepath aaec aasc transport options bench-smoke

.PHONY: all $(GATES) bench bench-pipeline clean

all: check

$(GATES):
	GO="$(GO)" sh scripts/check.sh $@

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

bench-pipeline:
	$(GO) test -run NONE -bench 'Pipelined|Lockstep' -benchtime 2s ./internal/datalet/

clean:
	$(GO) clean ./...
