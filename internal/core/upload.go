package core

import (
	"bytes"
	"fmt"

	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// validateUpload checks an upload's arguments and resolves the effective RAID level. It reads only
// immutable configuration, so it takes no lock.
func (d *Distributor) validateUpload(filename string, pl privacy.Level, opts UploadOptions) (raid.Level, error) {
	if filename == "" {
		return 0, fmt.Errorf("%w: empty filename", ErrConfig)
	}
	if !pl.Valid() {
		return 0, fmt.Errorf("%w: privacy level %v", ErrConfig, pl)
	}
	if opts.MisleadFraction < 0 || opts.MisleadFraction >= 1 {
		return 0, fmt.Errorf("%w: mislead fraction %v outside [0,1)", ErrConfig, opts.MisleadFraction)
	}
	if opts.Replicas < 0 {
		return 0, fmt.Errorf("%w: replicas %d", ErrConfig, opts.Replicas)
	}
	if len(opts.EncryptKey) > 0 {
		switch len(opts.EncryptKey) {
		case 16, 24, 32:
		default:
			return 0, fmt.Errorf("%w: encryption key must be 16, 24 or 32 bytes", ErrConfig)
		}
		if opts.MisleadFraction > 0 || len(opts.MisleadLines) > 0 {
			return 0, fmt.Errorf("%w: misleading data and encryption are mutually exclusive", ErrConfig)
		}
	}
	level := opts.Assurance
	if level == 0 {
		level = d.defaultRaid
	}
	if opts.NoParity {
		level = raid.None
	}
	if !level.Valid() {
		return 0, fmt.Errorf("%w: raid level %v", ErrConfig, level)
	}
	return level, nil
}

// preparePayload builds a chunk's stored payload from its original data:
// encryption, line decoys or byte decoys per opts. The mislead RNG and
// the encryption nonce are d.mu-guarded, so callers hold d.mu.
func (d *Distributor) preparePayload(data []byte, encKey []byte, opts UploadOptions) ([]byte, mislead.Injection, error) {
	switch {
	case encKey != nil:
		payload, err := cryptofrag.Encrypt(encKey, data, d.nextEncNonce())
		return payload, mislead.Injection{}, err
	case len(opts.MisleadLines) > 0:
		return mislead.InjectLines(data, opts.MisleadLines, d.misleadRNG)
	case opts.MisleadFraction > 0:
		return mislead.Inject(data, opts.MisleadFraction, d.misleadRNG)
	}
	return data, mislead.Injection{}, nil
}

// Upload receives a file from a client, fragments it according to the
// file's privacy level, optionally injects misleading bytes, stripes the
// chunks with RAID parity and scatters everything over the provider
// fleet. It returns the chunk count the client later uses to request
// chunks by (filename, serial). It is UploadStream over the buffer, so
// every write runs the one plan→ship→commit pipeline.
func (d *Distributor) Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	return d.UploadStream(client, password, filename, bytes.NewReader(data), pl, opts)
}
