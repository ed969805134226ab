"""Run configuration: JSON file schema, validation, and object construction."""

import json
import math
import os

from splitdg import cases, fluxes, geometry, mesh as mesh_mod, physics


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


def _is_count(value):
    """True for an int >= 1; JSON's true/false are ints in Python, so not for a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_finite_number(value):
    """True for a finite int or float, not a bool (JSON admits NaN and Infinity)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_list_of(value, length, item_ok):
    return isinstance(value, (list, tuple)) and len(value) == length and all(map(item_ok, value))


class RunConfig:
    """A validated run configuration; its fields are the keys of a config file.

    Takes the fields as keywords; each instance gets fresh default dicts.
    ``boundary`` is the built-in mesh's (None is periodic).
    """

    FIELDS = ("case", "case_params", "mesh", "degree", "gas", "volume_flux", "surface_dissipation",
              "cfl", "dt", "final_time", "monitor_interval", "output_dir", "case_name", "boundary")

    def __init__(self, **fields):
        unknown = sorted(set(fields) - set(self.FIELDS))
        if unknown:
            raise TypeError(f"RunConfig.__init__() got an unexpected keyword argument '{unknown[0]}'")
        vars(self).update(
            case="density_wave", case_params={}, mesh={"builtin": "warped_box", "cells": [4, 4, 4]},
            degree=4, gas={}, volume_flux="ec", surface_dissipation="llf", cfl=0.4, dt=None,
            final_time=0.25, monitor_interval=1, output_dir=".", case_name=None, boundary=None)
        vars(self).update(fields)
        for key in ("degree", "monitor_interval"):
            if not _is_count(getattr(self, key)):
                raise ConfigError(f"{key}: must be an integer >= 1, got {getattr(self, key)!r}")
        for key in ("mesh", "gas", "case_params"):
            if not isinstance(getattr(self, key), dict):
                raise ConfigError(f"{key}: must be an object, got {getattr(self, key)!r}")
        # The keys of the built-in mesh, mesh.warped_box_mesh.  A non-finite
        # amplitude would surface only as a NaN Jacobian.
        mesh_keys = (
            ("builtin", "warped_box", lambda v: v == "warped_box", "'warped_box'"),
            ("cells", [4, 4, 4], lambda v: _is_list_of(v, 3, _is_count), "three integers >= 1"),
            ("amplitude", 0.05, _is_finite_number, "a finite number"),
        )
        # A mesh file defines the whole mesh, so no built-in key may sit next to it.
        builtin_keys = sorted(key for key, *_ in mesh_keys)
        extra = sorted(set(self.mesh) - ({"path"} if "path" in self.mesh else set(builtin_keys)))
        if extra:
            raise ConfigError(f"mesh.{extra[0]}: not allowed here; a mesh is 'path' alone "
                              f"or any of the built-in keys {builtin_keys}")
        for key, default, ok, what in mesh_keys:
            value = self.mesh.get(key, default)
            if not ok(value):
                raise ConfigError(f"mesh.{key}: must be {what}, got {value!r}")
        if self.cfl is None and self.dt is None:
            raise ConfigError("cfl/dt: one of the two time controls must be set")
        # JSON admits NaN and Infinity, which every "<= 0" test lets through.
        for key in ("cfl", "dt", "final_time"):
            value = getattr(self, key)
            if value is not None and not (_is_finite_number(value) and value > 0):
                raise ConfigError(f"{key}: must be a finite positive number, got {value!r}")
        # Lists, not the dicts: ``in`` on a list compares, so an unhashable value fails too.
        for key, options in (("volume_flux", sorted(fluxes.VOLUME_FLUXES)),
                             ("surface_dissipation", list(fluxes.DISSIPATION_MODES)),
                             ("case", sorted(cases.CASES))):
            if getattr(self, key) not in options:
                raise ConfigError(f"{key}: must be one of {options}, got {getattr(self, key)!r}")
        if self.boundary not in (None, "periodic", "dirichlet"):
            raise ConfigError(f"boundary: must be 'periodic' or 'dirichlet', got '{self.boundary}'")
        if self.boundary is not None and "path" in self.mesh:
            raise ConfigError("boundary: not allowed next to mesh.path; "
                              "a mesh file sets the boundary of each face")
        for key, value in (("output_dir", self.output_dir), ("mesh.path", self.mesh.get("path", ""))):
            if not isinstance(value, str):
                raise ConfigError(f"{key}: must be a string, got {value!r}")
        if "path" in self.mesh and not os.path.exists(self.mesh["path"]):
            raise ConfigError(f"mesh.path: file does not exist: {self.mesh['path']}")
        # Every case parameter is a number, the velocity three of them; a bad
        # one would otherwise fail only inside the initial condition.
        for key, value in self.case_params.items():
            three = key == "velocity"
            if not (_is_list_of(value, 3, _is_finite_number) if three else _is_finite_number(value)):
                what = "a list of three finite numbers" if three else "a finite number"
                raise ConfigError(f"case_params.{key}: must be {what}, got {value!r}")
        # An unknown gas or case key, or a bad gas value, exits before any set-up too.
        self.gas_model()
        self.flow_case()
        if self.case_name is None:
            self.case_name = self.case
        # The output files are named after it, inside output_dir.
        if not isinstance(self.case_name, str) or not self.case_name or os.path.dirname(self.case_name):
            raise ConfigError(f"case_name: must be a non-empty file name, got {self.case_name!r}")

    @classmethod
    def from_file(cls, path):
        if not os.path.exists(path):
            raise ConfigError(f"config file does not exist: {path}")
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: invalid JSON: {err}") from err
        return cls.from_dict(raw, path)

    @classmethod
    def from_dict(cls, raw, path=None):
        """The config of ``raw``, read from the file ``path`` if given.

        A value that is not an object names that file, and a relative
        mesh.path is taken from its directory.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"{path or 'config'}: must be a JSON object, got {raw!r}")
        unknown = set(raw) - set(cls.FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # A mesh or path of the wrong type is left for the constructor to name;
        # an absolute path is joined as it is.
        mesh_path = raw["mesh"].get("path") if isinstance(raw.get("mesh"), dict) else None
        if path and isinstance(mesh_path, str):
            mesh_path = os.path.join(os.path.dirname(os.path.abspath(path)), mesh_path)
            raw = dict(raw, mesh=dict(raw["mesh"], path=mesh_path))
        try:
            return cls(**raw)
        except TypeError as err:
            raise ConfigError(str(err)) from err

    def gas_model(self):
        try:
            return physics.GasModel(**self.gas)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"gas: {err}") from err

    def flow_case(self):
        try:
            return cases.make_case(self.case, **self.case_params)
        except TypeError as err:
            raise ConfigError(f"case_params: {err}") from err

    def build_mesh(self, cells_override=None):
        if "path" in self.mesh:
            if cells_override is not None:
                raise ConfigError("mesh.path: a mesh file has one resolution; "
                                  "a convergence study needs the built-in mesh.cells")
            return mesh_mod.read_mesh_file(self.mesh["path"], degree=self.degree)
        cells = self.mesh.get("cells", (4, 4, 4)) if cells_override is None else cells_override
        amplitude = self.mesh.get("amplitude", 0.05)
        try:
            return mesh_mod.warped_box_mesh(self.degree, tuple(cells), amplitude,
                                            periodic=self.boundary != "dirichlet")
        except geometry.GeometryError as err:
            raise ConfigError(f"mesh.amplitude: {amplitude!r} folds the box: {err}") from err
