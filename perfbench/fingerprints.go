package main

// fingerprintSeed is the seed whose outputs are recorded below. A run at
// this seed compares every output with the record; runs at other seeds
// hold each repetition to the first one (and sharded-join to the serial
// engine).
const fingerprintSeed = 1

// recordedDigests are the Result digests (resultDigest) of the seeded
// sessions. join-storm and sharded-join share one: the engines promise
// byte-identical Results.
var recordedDigests = map[string]string{
	"join-storm": "3ae3347df7808b11",
}

// recordedTables are the paper-figures table digests (tableDigest) by
// figure id.
var recordedTables = map[string]string{
	"3.25": "2ded612a3ce016d2",
	"3.26": "d1e1292c42d9ae74",
	"3.27": "4e5d1e42870fb518",
	"3.28": "749e199cc115f1c6",
	"4.6":  "121aaf852260a61b",
	"4.7":  "4450bd0f2d742e72",
	"4.8":  "af8cb8c4106b810a",
	"4.9":  "9c3c548cd3830b10",
	"5.28": "2e7ae130298004e5",
	"5.29": "567dd8d1e17632c4",
	"5.30": "1f8c33aa45e032f1",
}
