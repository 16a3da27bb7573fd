"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import (
    CacheConfig,
    CounterCacheConfig,
    EncryptionConfig,
    SystemConfig,
    fast_config,
)
from repro.core.designs import get_design
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.mem.controller import MemoryController
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder

KB = 1024
MB = 1024 * KB


@pytest.fixture
def config() -> SystemConfig:
    """Small functional configuration for unit tests."""
    return fast_config()


@pytest.fixture
def controller_factory(config):
    """Build a memory controller for a named design."""

    def factory(design_name: str, cfg: SystemConfig = None) -> MemoryController:
        return MemoryController(cfg or config, get_design(design_name))

    return factory


@pytest.fixture
def machine_factory(config):
    """Build a machine for a named design."""

    def factory(design_name: str, cfg: SystemConfig = None) -> Machine:
        return Machine(cfg or config, design_name)

    return factory


@pytest.fixture
def otp_cipher() -> OTPCipher:
    return OTPCipher(make_block_cipher(EncryptionConfig()))


@pytest.fixture
def builder() -> TraceBuilder:
    return TraceBuilder("test")
