"""Run configuration: defaults, JSON config files, and flag overrides.

rf_frequency and center_frequency are carried as run metadata only; the
discrete simulation depends on bin indices alone.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

from .errors import InvalidInputError
from .params import MAX_BINS, DispersionProfile, MeasurementModel, TruncationPolicy, json_number, strict_int


@dataclass(frozen=True)
class RunConfig:
    rf_frequency: float = 25e9            # Omega / 2pi, Hz
    center_frequency: float = 193.125e12  # omega_0 / 2pi, Hz
    bins: tuple[int, ...] | range = (1, 2, 3, 4, 5, 6)
    truncation: TruncationPolicy = TruncationPolicy()
    measurement: MeasurementModel = MeasurementModel()
    dispersion: DispersionProfile = DispersionProfile()
    seed: int = 12345

    def __post_init__(self):
        for name in ("rf_frequency", "center_frequency"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be positive and finite")
        if not self.bins:
            raise InvalidInputError("bins must be non-empty")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        overrides = self.dispersion.per_bin_overrides or {}
        return {
            "rf_frequency": self.rf_frequency,
            "center_frequency": self.center_frequency,
            "bins": list(self.bins),
            "seed": self.seed,
            "truncation": dataclasses.asdict(self.truncation),
            "measurement": dataclasses.asdict(self.measurement),
            "dispersion": {
                "quadratic_coefficient": self.dispersion.quadratic_coefficient,
                "per_bin_overrides": {str(k): v for k, v in overrides.items()},
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> RunConfig:
        """Config from a JSON object; an unknown key or a bad value raises InvalidInputError."""
        base = cls()
        defaults = base.to_dict()
        unknown = set(data) - set(defaults)
        for section in ("truncation", "measurement", "dispersion"):
            if isinstance(data.get(section), dict):
                unknown |= {f"{section}.{key}"
                            for key in set(data[section]) - set(defaults[section])}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        number = functools.partial(json_number, "config value")
        try:
            disp = data.get("dispersion", {})
            overrides, keys = {}, {}
            for key, value in (disp.get("per_bin_overrides") or {}).items():
                bin_index = strict_int(key)
                if bin_index in keys:  # "0" and "-0", or "2" and " 2"
                    raise InvalidInputError(
                        f"bad config value: dispersion.per_bin_overrides keys {keys[bin_index]!r} "
                        f"and {key!r} both name bin {bin_index}")
                keys[bin_index] = key
                name = f"dispersion.per_bin_overrides[{key!r}]"
                overrides[bin_index] = float(number(name, value))
            measurement = {key: number(f"measurement.{key}", value)
                           for key, value in data.get("measurement", {}).items()}
            truncation = {key: number(f"truncation.{key}", value, integer=key == "max_order")
                          for key, value in data.get("truncation", {}).items()}
            return cls(
                rf_frequency=float(number("rf_frequency", data.get("rf_frequency", base.rf_frequency))),
                center_frequency=float(number("center_frequency", data.get("center_frequency",
                                                                           base.center_frequency))),
                bins=tuple(number("each bin", b, integer=True) for b in data.get("bins", base.bins)),
                truncation=TruncationPolicy(**truncation),
                measurement=MeasurementModel(**measurement),
                dispersion=DispersionProfile(
                    quadratic_coefficient=float(number("dispersion.quadratic_coefficient",
                                                       disp.get("quadratic_coefficient", 0.0))),
                    per_bin_overrides=overrides or None,
                ),
                seed=number("seed", data.get("seed", base.seed), integer=True),
            )
        except InvalidInputError:
            raise
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad config value: {exc}") from None


def _object_without_repeated_keys(pairs) -> dict:
    """A JSON object as a dict; json.load alone would keep the last of two equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidInputError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_object_without_repeated_keys)
    except (OSError, ValueError) as exc:  # unreadable file, bad UTF-8 or bad JSON
        raise InvalidInputError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInputError(f"config file {path}: expected a JSON object")
    return RunConfig.from_dict(data)


def parse_bins(text: str) -> tuple[int, ...] | range:
    """Bin tuple from '1,2,3' or range from 'lo..hi' (inclusive, at most MAX_BINS bins) by strict_int."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = strict_int(lo_text), strict_int(hi_text)
        except ValueError:
            raise InvalidInputError(f"bad bin range {text!r}") from None
        if hi < lo:
            raise InvalidInputError(f"bad bin range {text!r}")
        if hi - lo >= MAX_BINS:
            raise InvalidInputError(f"bin range {text!r} has {hi - lo + 1} bins; at most {MAX_BINS} allowed")
        return range(lo, hi + 1)
    try:
        return tuple(strict_int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(f"bad bin list {text!r}") from None
