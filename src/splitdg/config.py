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


def _check(key, value, ok, what):
    """Raise the ConfigError "``key``: must be ``what``, got ``value!r``" unless ``ok``."""
    if not ok:
        raise ConfigError(f"{key}: must be {what}, got {value!r}")


# The keys of the built-in mesh, mesh.warped_box_mesh: key -> (default, check, what it must be).
# A non-finite amplitude would surface only as a NaN Jacobian.
MESH_KEYS = {"builtin": ("warped_box", lambda v: v == "warped_box", "'warped_box'"),
             "cells": ((4, 4, 4), lambda v: _is_list_of(v, 3, _is_count), "three integers >= 1"),
             "amplitude": (0.05, _is_finite_number, "a finite number")}

# Every field of a RunConfig with its default.
DEFAULTS = {"case": "density_wave", "case_params": {},
            "mesh": {key: MESH_KEYS[key][0] for key in ("builtin", "cells")}, "degree": 4, "gas": {},
            "volume_flux": "ec", "surface_dissipation": "llf", "cfl": 0.4, "dt": None, "final_time": 0.25,
            "monitor_interval": 1, "output_dir": ".", "case_name": None, "boundary": None}


class RunConfig:
    """A validated run configuration; its fields are the keys of a config file.

    Takes the fields as keywords.  ``DEFAULTS`` is the one place of the
    fields and their defaults, and ``MESH_KEYS`` of the built-in mesh's
    keys, defaults and checks; each instance gets fresh copies of the
    default dicts.  The checks run in a fixed order, so a config with two
    faults names the first.  ``boundary`` is the built-in mesh's (None is
    periodic).
    """

    FIELDS = tuple(DEFAULTS)

    def __init__(self, **fields):
        unknown = sorted(set(fields) - set(self.FIELDS))
        if unknown:
            raise TypeError(f"RunConfig.__init__() got an unexpected keyword argument '{unknown[0]}'")
        # Fresh copies of the default dicts, through JSON as a config file gives them (cells a list).
        vars(self).update(json.loads(json.dumps(DEFAULTS)), **fields)
        for key in ("degree", "monitor_interval"):
            _check(key, getattr(self, key), _is_count(getattr(self, key)), "an integer >= 1")
        # A higher degree would fail in the error norms, after the whole time loop.
        _check("degree", self.degree, self.degree <= cases.MAX_DEGREE, f"at most {cases.MAX_DEGREE}, whose "
               f"error norms use a grid of degree {cases.error_grid_degree(cases.MAX_DEGREE)}")
        for key in ("mesh", "gas", "case_params"):
            _check(key, getattr(self, key), isinstance(getattr(self, key), dict), "an object")
        # A mesh file defines the whole mesh, so no built-in key may sit next to it.
        extra = sorted(set(self.mesh) - ({"path"} if "path" in self.mesh else set(MESH_KEYS)))
        if extra:
            raise ConfigError(f"mesh.{extra[0]}: not allowed here; a mesh is 'path' alone "
                              f"or any of the built-in keys {sorted(MESH_KEYS)}")
        for key, (default, ok, what) in MESH_KEYS.items():
            value = self.mesh.get(key, default)
            _check(f"mesh.{key}", value, ok(value), what)
        if self.cfl is None and self.dt is None:
            raise ConfigError("cfl/dt: one of the two time controls must be set")
        # JSON admits NaN and Infinity, which every "<= 0" test lets through.
        # Either time control may be null; the final time may not.
        for key, value in (("cfl", self.cfl), ("dt", self.dt), ("final_time", self.final_time)):
            _check(key, value, (value is None and key != "final_time") or (_is_finite_number(value) and value > 0),
                   "a finite positive number")
        # Lists, not the dicts: ``in`` on a list compares, so an unhashable value fails too.
        for key, options in (("volume_flux", sorted(fluxes.VOLUME_FLUXES)),
                             ("surface_dissipation", list(fluxes.DISSIPATION_MODES)),
                             ("case", sorted(cases.CASES))):
            _check(key, getattr(self, key), getattr(self, key) in options, f"one of {options}")
        _check("boundary", self.boundary, self.boundary in (None, "periodic", "dirichlet"),
               "'periodic' or 'dirichlet'")
        if self.boundary is not None and "path" in self.mesh:
            raise ConfigError("boundary: not allowed next to mesh.path; "
                              "a mesh file sets the boundary of each face")
        # A NUL byte would fail only when the files are opened, after the solve.
        for key, value in (("output_dir", self.output_dir), ("mesh.path", self.mesh.get("path", ""))):
            _check(key, value, isinstance(value, str) and "\0" not in value, "a string without NUL bytes")
        if "path" in self.mesh and not os.path.exists(self.mesh["path"]):
            raise ConfigError(f"mesh.path: file does not exist: {self.mesh['path']}")
        # Every case parameter is a number, the velocity three of them; a bad
        # one would otherwise fail only inside the initial condition.
        for key, value in self.case_params.items():
            ok, what = ((_is_list_of(value, 3, _is_finite_number), "a list of three finite numbers")
                        if key == "velocity" else (_is_finite_number(value), "a finite number"))
            _check(f"case_params.{key}", value, ok, what)
        # An unknown gas or case key, or a bad gas value, exits before any set-up too.
        self.gas_model()
        self.flow_case()
        # The output files are named after it, inside output_dir.
        name = self.case_name = self.case if self.case_name is None else self.case_name
        _check("case_name", name, isinstance(name, str) and name and not os.path.dirname(name)
               and "\0" not in name, "a non-empty file name")

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
        # Every key is a field, so the constructor fails only with a ConfigError.
        return cls(**raw)

    def gas_model(self):
        try:
            return physics.GasModel(**self.gas)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"gas: {err}") from err

    def flow_case(self):
        try:
            return cases.CASES[self.case](**self.case_params)
        except TypeError as err:
            raise ConfigError(f"case_params: {err}") from err

    def build_mesh(self, cells_override=None):
        if "path" in self.mesh:
            if cells_override is not None:
                raise ConfigError("mesh.path: a mesh file has one resolution; "
                                  "a convergence study needs the built-in mesh.cells")
            return mesh_mod.read_mesh_file(self.mesh["path"], degree=self.degree)
        cells = self.mesh.get("cells", MESH_KEYS["cells"][0]) if cells_override is None else cells_override
        amplitude = self.mesh.get("amplitude", MESH_KEYS["amplitude"][0])
        try:
            return mesh_mod.warped_box_mesh(self.degree, tuple(cells), amplitude,
                                            periodic=self.boundary != "dirichlet")
        except geometry.GeometryError as err:
            raise ConfigError(f"mesh.amplitude: {amplitude!r} folds the box: {err}") from err
